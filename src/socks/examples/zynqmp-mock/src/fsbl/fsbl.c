/* first stage boot loader */
int main(void) { return 0; }
